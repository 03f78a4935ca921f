"""Exhaustive search for magic labelings.

Two engines share nothing but the definition of a weight:

* a pruned backtracking search over integer element codes (the group's
  Cayley table from ``abelian.cayley_tables``): one sum constraint per
  vertex, forward checking, translation and open-twin symmetry in count
  and first mode, and in count mode a closed-form count of the free tail;
* a deliberately naive permutation scan, used as the independent oracle:
  every one of the n! permutations of the group's elements, unpruned, is
  scored on packed integer labels, one stage per edge of a cheapest
  spanning tree of the distinct neighbourhoods
  (``magic.magic_permutations``), and every labeling it reports is
  confirmed by the verifier's per-factor weight kernel.
"""

from __future__ import annotations

import itertools
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import NamedTuple

from .abelian import GroupSpec, cayley_tables, enumerate_abelian_groups
from .graphs import Graph
from .magic import Labeling, all_obstructions, magic_permutations

__all__ = [
    "SolverError",
    "SearchSizeError",
    "SearchOptions",
    "NAIVE_VERTEX_CAP",
    "PRUNED_VERTEX_CAP",
    "ALL_MODE_CAP",
    "search_labelings",
    "classify_over_all_groups",
]

NAIVE_VERTEX_CAP = 8
PRUNED_VERTEX_CAP = 12
# labelings that all mode lists, 8! and more, so that the naive path, which
# lists at most 8!, needs no check of its own
ALL_MODE_CAP = 100_000


class SolverError(ValueError):
    """Bad search request."""


class SearchSizeError(SolverError):
    """Instance exceeds the supported size cap."""


@dataclass(frozen=True)
class SearchOptions:
    """mode: first | all | count; vertex_order: degree_desc | input;
    use_pruning=False selects the naive oracle path; jobs: the most worker
    processes a pruned search runs its branches on (1: none)."""

    mode: str = "first"
    vertex_order: str = "degree_desc"
    use_pruning: bool = True
    jobs: int = 1


def _vertex_order(g: Graph, kind: str) -> list[int]:
    if kind == "input":
        return list(range(g.n))
    return sorted(range(g.n), key=lambda v: (-g.degree(v), v))


def _naive(g: Graph, group: GroupSpec, mode: str):
    """Scan every permutation of the group's elements as vertex labels
    (``magic_permutations``). The scan is lazy, so first mode reads the
    permutations only up to the first hit, and count mode builds a
    Labeling only per hit."""
    hits = magic_permutations(g, Labeling(group, tuple(group.elements())))
    if mode == "count":
        return sum(1 for _ in hits)
    return list(itertools.islice(hits, 1 if mode == "first" else None))


def _constraints(g: Graph) -> list[tuple[frozenset[int], bool]]:
    """One weight constraint per distinct neighbourhood, in order of first
    occurrence (``Graph.twin_classes``), in the smaller of two equivalent
    forms: twins have one constraint.

    w(v) = mu is a sum over N(v); since all labels sum to s(group), it is
    also s - (sum over V - N(v)) = mu, whose members include v itself.
    A constraint is (members, plus): its running value starts at 0 and
    adds each member's label (plus), or starts at s and subtracts them, and
    it holds when the closed value equals mu.
    """
    everyone = frozenset(range(g.n))
    return [(nbrs, True) if 2 * len(nbrs) <= g.n else (everyone - nbrs, False)
            for nbrs in g.twin_classes[0]]


def _search(g: Graph, group: GroupSpec, order: list[int], mode: str,
            prefix: tuple[int, ...] = (), pinned: bool = False):
    """Backtracking over integer element codes with forward checking.

    Vertices are labeled in ``order``, each trying the unused codes in
    element order, so results come in lexicographic order of the label
    sequence along ``order``. The first closed constraint fixes mu; a later
    one that disagrees cuts the branch. Once mu is known, a constraint with
    one unlabeled member left forces that member's label, and the branch is
    cut when the forced label is taken. ``prefix`` fixes the codes of the
    first vertices of ``order``; ``pinned`` says that the first of them is
    pinned by translation symmetry rather than chosen by a branch.

    In first and count mode the members of each open twin class (``order[0]``
    left out when pinned) take increasing codes along ``order``: swapping
    twins maps a magic labeling to one with the same mu, so this keeps one
    labeling per orbit, and the least of each orbit, which holds the first
    witness. A vertex stops trying codes once too few unused codes above
    the candidate are left for its class members after it. In count mode,
    once every constraint is closed the vertices left take the labels left
    in every twin-ordered way, counted in closed form, and the count is
    multiplied by k! per class of k members.
    Returns the count of labelings that extend ``prefix``, or their list.
    """
    n = g.n
    add, neg, s = cayley_tables(group)
    sub = [[row[b] for b in neg] for row in add]
    # column b of sub holds a - b = -b + a: row -b of add (the group is abelian)
    sub_t = [add[b] for b in neg]
    elements = list(group.elements())
    cons = _constraints(g)
    step = [add if plus else sub for _, plus in cons]
    unstep = [sub if plus else add for _, plus in cons]
    # force[c][mu][value]: the last member's label that closes c at mu
    force = [sub if plus else sub_t for _, plus in cons]
    value = [0 if plus else s for _, plus in cons]
    left = [len(members) for members, _ in cons]
    cons_of = [[c for c, (members, _) in enumerate(cons) if v in members]
               for v in range(n)]
    used = [False] * n
    # label[n] = -1 stands for the code before v's when v is first in its
    # class, so that v's least code is always label[prev[v]] + 1
    label = [0] * n + [-1]
    prev = [n] * n
    later = [0] * n
    classes: list[list[int]] = [[] for _ in g.twin_classes[2]]
    if mode != "all":
        for v in order[1:] if pinned else order:
            classes[g.twin_classes[1][v]].append(v)
    for members in classes:
        for k, v in enumerate(members):
            prev[v] = members[k - 1] if k else n
            later[v] = len(members) - 1 - k
    counting = mode == "count"
    fixed = len(prefix)
    found: list[Labeling] = []
    tally = 0
    # a constraint with no members (an isolated vertex) is closed at 0
    mu0 = 0 if 0 in left else -1

    def dfs(depth: int, mu: int, open_: int) -> bool:
        nonlocal tally
        if counting and open_ == 0 and depth >= fixed:
            # The vertices left are in no constraint, so they are the
            # vertices of degree at most n/2 adjacent to exactly those of
            # degree above n/2 (see _constraints): open twins, the last
            # members of one class, which take any n - depth of the unused
            # codes above the label of the member before them.
            low = label[prev[order[depth]]] if depth < n else -1
            tally += 1 if low < 0 else math.comb(
                n - 1 - low - sum(used[low + 1:]), n - depth)
            return True
        if depth == n:
            if len(found) == ALL_MODE_CAP:
                raise _over_all_mode_cap()
            assignment = tuple(elements[label[v]] for v in range(n))
            found.append(Labeling(group, assignment, elements[mu]))
            return mode != "first"
        v = order[depth]
        mine = cons_of[v]
        lo, hi = label[prev[v]] + 1, n
        room = later[v]
        while room:  # v's code is below the room-th largest unused one
            hi -= 1
            room -= not used[hi]
        if depth < fixed:
            # the first in its class, or pinned and in none: lo is 0
            candidates = prefix[depth:depth + 1] if prefix[depth] < hi else ()
        else:
            candidates = range(lo, hi)
            if mu >= 0:
                for c in mine:
                    if left[c] == 1:
                        e = force[c][mu][value[c]]
                        candidates = (e,) if lo <= e < hi else ()
                        break
        for e in candidates:
            if used[e]:
                continue
            new_mu, ok, closed = mu, True, 0
            for c in mine:
                w = step[c][value[c]][e]
                value[c] = w
                left[c] -= 1
                if left[c] == 0:
                    closed += 1
                    if new_mu < 0:
                        new_mu = w
                    elif w != new_mu:
                        ok = False
            used[e] = True
            if ok and new_mu >= 0:
                # forward check; when mu is new, every constraint can force
                for c in (range(len(cons)) if mu < 0 else mine):
                    if left[c] == 1 and used[force[c][new_mu][value[c]]]:
                        ok = False
                        break
            keep_going = True
            if ok:
                label[v] = e
                keep_going = dfs(depth + 1, new_mu, open_ - closed)
            used[e] = False
            for c in mine:
                value[c] = unstep[c][value[c]][e]
                left[c] += 1
            if not keep_going:
                return False
        return True

    dfs(0, mu0, sum(1 for k in left if k))
    if not counting:
        return found
    for members in classes:
        tally *= math.factorial(len(members))
    return tally


def _branch_worker(args):
    return _search(*args)


def _over_all_mode_cap() -> SearchSizeError:
    return SearchSizeError(
        f"more than {ALL_MODE_CAP} labelings, over the cap of all mode "
        f"(ALL_MODE_CAP); --mode count counts them")


def _merge(mode: str, results):
    """The branches' results, read in branch order and only as far as the
    answer needs them."""
    if mode == "count":
        return sum(results)
    merged: list[Labeling] = []
    for labelings in results:
        merged.extend(labelings)
        if mode == "first" and merged:
            return merged[:1]
        if len(merged) > ALL_MODE_CAP:
            raise _over_all_mode_cap()
    return merged


def _check_request(g: Graph, group: GroupSpec, opts: SearchOptions) -> None:
    if opts.mode not in ("first", "all", "count"):
        raise SolverError(f"unknown search mode {opts.mode!r}")
    if opts.vertex_order not in ("degree_desc", "input"):
        raise SolverError(f"unknown vertex order {opts.vertex_order!r}")
    if opts.jobs < 1:
        raise SolverError(f"--jobs must be at least 1, got {opts.jobs}")
    if g.n != group.order:
        raise SolverError(
            f"graph has {g.n} vertices but group {group} has order "
            f"{group.order_text()}")
    cap = PRUNED_VERTEX_CAP if opts.use_pruning else NAIVE_VERTEX_CAP
    if g.n > cap:
        raise SearchSizeError(
            f"{'pruned' if opts.use_pruning else 'naive'} search supports at "
            f"most {cap} vertices, got {g.n}")


class _Plan(NamedTuple):
    """How a pruned search runs: its vertex order, the codes fixed on the
    first vertices of that order, and its branches, one per label of the
    first vertex not fixed."""

    order: list[int]
    prefix: tuple[int, ...]
    branches: list[tuple[int, ...]]


def _plan(g: Graph, opts: SearchOptions) -> _Plan:
    """Translation symmetry: on a regular graph l -> l + c keeps every weight
    equal and moves every labeling when c != 0, so in count and first mode
    the first vertex may be pinned to code 0. Count mode multiplies the
    count by n. First mode keeps its witness: l - l(order[0]) is magic and
    labels order[0] with code 0, the least code, so the first labeling in
    lexicographic order already has it there."""
    pinned = (opts.mode in ("count", "first") and g.n > 1
              and len(set(g.degrees)) == 1)
    prefix = (0,) if pinned else ()
    return _Plan(_vertex_order(g, opts.vertex_order), prefix,
                 [prefix + (e,) for e in range(g.n) if e not in prefix])


@contextmanager
def _branch_pool(jobs: int, branches: int):
    """A process pool of min(jobs, cpu count, branches) workers, or None
    when that is one worker. Leaving the block terminates and joins the
    workers, so a refusal or an early answer does not wait for the branches
    still running."""
    workers = min(jobs, os.cpu_count() or 1, branches)
    if workers < 2:
        yield None
        return
    # imported here: only this path needs it, and it pulls in
    # multiprocessing, about a third of the time of importing gdmagic
    from multiprocessing.pool import Pool
    with Pool(processes=workers) as pool:
        yield pool


def _run(g: Graph, group: GroupSpec, mode: str, plan: _Plan, pool):
    """Answer a pruned request that passed ``_check_request`` by ``plan``,
    running its branches on ``pool`` when one is given."""
    order, prefix, branches = plan
    if pool is not None:
        result = _merge(mode, pool.imap(
            _branch_worker,
            [(g, group, order, mode, b, bool(prefix)) for b in branches]))
    else:
        result = _search(g, group, order, mode, prefix, bool(prefix))
    return result * g.n if prefix and mode == "count" else result


def _answers(g: Graph, specs: list[GroupSpec], opts: SearchOptions) -> list:
    """The answer of ``opts`` for g over each group of ``specs``: every
    request is checked first, the naive oracle scans every graph, and a
    blocking obstruction answers before any plan, table or pool."""
    for spec in specs:
        _check_request(g, spec, opts)
    if not opts.use_pruning:
        return [_naive(g, spec, opts.mode) for spec in specs]
    if any(o.blocks for o in all_obstructions(g)):
        return [0 if opts.mode == "count" else [] for _ in specs]
    plan = _plan(g, opts)
    with _branch_pool(opts.jobs, len(plan.branches)) as pool:
        return [_run(g, spec, opts.mode, plan, pool) for spec in specs]


def search_labelings(g: Graph, group: GroupSpec,
                     opts: SearchOptions = SearchOptions()):
    """All magic labelings of g over the group, in a deterministic order.

    Returns a list of labelings for modes "first" and "all", or an int for
    mode "count". The naive path accepts at most 8 vertices, the pruned path
    at most 12, and mode "all" lists at most ALL_MODE_CAP labelings. The
    pruned path does not search a graph with a blocking obstruction
    (``Obstruction.blocks``), which has none; the naive path scans it. With
    jobs > 1 the pruned search splits into one branch per label of the
    first vertex that is not pinned, and runs them on at most min(jobs, cpu
    count, branches) worker processes; the results are the same as with
    jobs = 1.
    """
    return _answers(g, [group], opts)[0]


def classify_over_all_groups(g: Graph,
                             opts: SearchOptions = SearchOptions()
                             ) -> dict[GroupSpec, bool]:
    """For each isomorphism class of abelian groups of order |V(g)|, whether
    g admits a magic labeling; g is group distance magic when all do.

    ``search_labelings``'s first mode, over all groups at once: one
    obstruction scan, and with jobs > 1 one shared process pool.
    """
    specs = enumerate_abelian_groups(g.n)
    found = _answers(g, specs, replace(opts, mode="first"))
    return {spec: bool(labelings) for spec, labelings in zip(specs, found)}
